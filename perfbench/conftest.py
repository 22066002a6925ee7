import env

env.prepare()
